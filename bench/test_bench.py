"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import rca  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def dense():
    return workloads.setup_dense_fit(0)


def test_self_times_sum_to_traced_wall_time(dense):
    tracer = spans.Tracer()
    tracer.install(rca)
    try:
        loop = run.run_loop(dense.cycle, 0.0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert loop.failures == []
    self_t = tracer.self_times()
    for op, wall in enumerate(loop.latencies):
        total = sum(t for t, s in zip(self_t, tracer.spans) if s[spans.OP] == op)
        assert total == pytest.approx(wall, rel=0.01, abs=2e-4)
    assert all(t >= -1e-9 for t in self_t)
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"core.rca_fit", "linalg.gen_eig_spd", "lapack.eigh", "cca.cca_fit"} <= names


def test_tracer_replaces_every_binding_and_restores_them():
    originals = {name: fn for name, _, _, fn in spans.public_callables(rca)}
    rca_fit, eigh = rca.core.rca_fit, np.linalg.eigh
    tracer = spans.Tracer()
    tracer.install(rca)
    try:
        for mod in spans.package_modules(rca):
            for attr, obj in vars(mod).items():
                assert not any(obj is fn for fn in originals.values()), f"{mod.__name__}.{attr}"
        assert rca.rca_fit is rca.cca.rca_fit is rca.itrca.rca_fit is rca.cli.rca_fit
        assert rca.rca_fit is not rca_fit and np.linalg.eigh is not eigh
    finally:
        tracer.uninstall()
    assert rca.rca_fit is rca.cca.rca_fit is rca.itrca.rca_fit is rca_fit
    assert np.linalg.eigh is eigh


def test_same_seed_gives_same_inputs(tmp_path, dense):
    assert workloads.setup_dense_fit(0).input_hash == dense.input_hash
    assert workloads.setup_dense_fit(1).input_hash != dense.input_hash
    first = workloads.setup_itrca_sweep(5).input_hash
    assert workloads.setup_itrca_sweep(5).input_hash == first
    one = workloads.setup_cli_roundtrip(2, str(tmp_path / "a")).input_hash
    assert workloads.setup_cli_roundtrip(2, str(tmp_path / "b")).input_hash == one


def _perturbed(op, change):
    return dataclasses.replace(op, run=lambda: change(op.run()))


def test_wrong_outputs_are_counted_as_failures(dense):
    ops = {op.kind: op for op in dense.cycle}
    bad = [
        _perturbed(ops["rca_fit.explicit"],
                   lambda f: dataclasses.replace(f, loadings=f.loadings * (1 + 1e-6))),
        _perturbed(ops["ppca_fit"],
                   lambda f: dataclasses.replace(f, loadings=f.loadings[:, ::-1])),
        _perturbed(ops["cca_fit"],
                   lambda f: dataclasses.replace(f, correlations=f.correlations + 1e-7)),
        dataclasses.replace(ops["rca_fit.identity"], run=lambda: 1 / 0),
    ]
    loop = run.run_loop(bad, 0.0)
    assert len(loop.latencies) == len(bad) and len(loop.failures) == len(bad)
    assert run.end_to_end(loop)["ok_frac"] == 0.0


def test_changed_cli_artifact_fails_the_repeat_check(tmp_path, monkeypatch):
    work = workloads.setup_cli_roundtrip(0, str(tmp_path))
    op = next(o for o in work.cycle if o.kind == "cli.rca")
    assert op.check(op.run()) == {}
    real_main = rca.cli.main

    def drifting_main(argv):
        code = real_main(argv)
        with open(os.path.join(argv[argv.index("-o") + 1], "eigvals.csv"), "a") as fh:
            fh.write("\n")
        return code

    monkeypatch.setattr(rca.cli, "main", drifting_main)
    with pytest.raises(workloads.CheckError, match="differ"):
        op.check(op.run())
