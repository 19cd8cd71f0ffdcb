import os
import subprocess
import sys
import textwrap

import hybridlag as hl


def test_every_exported_name_resolves():
    missing = [name for name in hl.__all__ if not hasattr(hl, name)]
    assert not missing
    assert len(set(hl.__all__)) == len(hl.__all__)


def test_closed_form_runs_import_no_scipy(tmp_path):
    # the package runs on numpy alone: with every scipy import made to
    # fail, the CLI runs each mode on the billiard (verify and compare
    # included, whose checks solve velocity Hessians), and a generic
    # system without a closed-form acceleration runs on its
    # finite-difference Hessian solve. A fresh interpreter, since the
    # test session has scipy loaded.
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None  # any scipy import raises ImportError
        sys.path.insert(0, {src!r})

        import numpy as np
        import hybridlag as hl
        from hybridlag import cli, hybrid
        for model, mode in (("billiard-polar", "full"),
                            ("billiard-polar", "reduced"),
                            ("billiard-polar", "resequenced"),
                            ("billiard-polar", "compare"),
                            ("billiard-polar", "verify"),
                            ("billiard-cartesian", "full"),
                            ("billiard-cartesian", "verify")):
            out = {str(tmp_path)!r} + "/" + model + "-" + mode
            code = cli.main(["run", "--model", model, "--scenario",
                             "paper-c025", "--mode", mode, "--horizon", "1",
                             "--out", out])
            assert code == 0, (model, mode, code)

        oscillator = hl.LagrangianSystem(
            dim=1, lagrangian=lambda t, q, v: 0.5 * (v @ v - q @ q),
            dL_dq=lambda t, q, v: -q, dL_dv=lambda t, q, v: v.copy())
        flow = hl.simulate(hybrid._inert_hybrid(oscillator),
                           hl.State(0.0, [1.0], [0.0]), 1.0)
        assert abs(flow.arcs[-1].states[-1][0] - np.cos(1.0)) < 1e-6
        print("ok")
    """)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("ok")
