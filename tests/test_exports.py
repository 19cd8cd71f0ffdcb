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
    # scipy serves only the Hessian LU of Lagrangians without a closed-form
    # acceleration: importing the package and running a billiard through
    # the CLI must not load it, and a generic system must load it on use.
    # A fresh interpreter, since the test session has scipy loaded.
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {src!r})

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        import hybridlag as hl
        from hybridlag import cli
        assert not scipy_modules(), scipy_modules()[:5]
        for model, mode in (("billiard-polar", "full"),
                            ("billiard-polar", "reduced"),
                            ("billiard-polar", "resequenced"),
                            ("billiard-cartesian", "full")):
            out = {str(tmp_path)!r} + "/" + model + "-" + mode
            code = cli.main(["run", "--model", model, "--scenario",
                             "paper-c025", "--mode", mode, "--horizon", "1",
                             "--out", out])
            assert code == 0, (model, mode, code)
        assert not scipy_modules(), scipy_modules()[:5]

        import numpy as np
        oscillator = hl.LagrangianSystem(
            dim=1, lagrangian=lambda t, q, v: 0.5 * (v @ v - q @ q),
            dL_dq=lambda t, q, v: -q, dL_dv=lambda t, q, v: v.copy())
        from hybridlag import hybrid
        flow = hl.simulate(hybrid._inert_hybrid(oscillator),
                           hl.State(0.0, [1.0], [0.0]), 1.0)
        assert abs(flow.arcs[-1].states[-1][0] - np.cos(1.0)) < 1e-6
        assert "scipy.linalg" in sys.modules
        print("ok")
    """)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("ok")
