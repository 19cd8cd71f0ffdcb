"""Print a manifest of the CLI's outputs, for byte-identity checks.

    python tools/output_manifest.py > manifest.txt

Runs a fixed case set through
``python -W error::RuntimeWarning -m hybridlag.cli`` in a temporary
directory, so that a numpy warning fails its case: all five modes of
both billiards on both paper scenarios; `full` and `verify` of
`free-particle` and `harmonic-1d` (no scenario); and four billiard
starts whose arithmetic leaves the float range, each given as a
``--config`` file written into the temporary directory (polar `full`
and `resequenced` at v_r = 1e300, polar `reduced` at a rate of the
angle of 1e300, Cartesian `full` at v = (0, 1e154)); all at horizon
10. For each case it prints its exit
code, then ``sha256  case/file`` for each file the case wrote, in name
order.
`run.json` is hashed without its "out" line, since it records the output
directory. Two checkouts, or two runs of one, write the same outputs
when their manifests are equal; `diff` them.

Each case also has an expected outcome: exit 0, or, where the CLI must
refuse the input, exit 1 with an error.json naming the error class:
ParseError for reduction of the Cartesian billiard, which has no cyclic
coordinate, and for `verify` of a model without a scenario;
InvalidStart where the guard overflows at the start (polar `full`,
`resequenced`), and IntegrationFailure where the arc's solver does
(polar `reduced`, and Cartesian `full`, whose initial-step norm of
f overflows to inf, so that the first step size is 0 and its slope norm
divides by it). The script exits 1, after printing the whole manifest,
when any case misses its outcome, and names those cases on stderr.

The package is the one the interpreter imports: the installed one, or
the checkout's `src/` given on PYTHONPATH (made absolute here, since the
runs start in the temporary directory).
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

MODES = ("full", "reduced", "resequenced", "compare", "verify")
HORIZON = "10"


def cases():
    """(name, CLI arguments, configuration document or None, expected
    error class or None) of each case, in a fixed order."""
    for model in ("billiard-cartesian", "billiard-polar"):
        for scenario in ("paper-c025", "paper-c010"):
            for mode in MODES:
                refused = (model == "billiard-cartesian"
                           and mode in ("reduced", "resequenced", "compare"))
                yield (f"{model}-{scenario}-{mode}",
                       ["--model", model, "--scenario", scenario,
                        "--mode", mode], None,
                       "ParseError" if refused else None)
    for model in ("free-particle", "harmonic-1d"):
        for mode in ("full", "verify"):
            yield (f"{model}-{mode}", ["--model", model, "--mode", mode],
                   None, "ParseError" if mode == "verify" else None)
    # finite starts whose arithmetic overflows, each from a --config file
    for model, mode, v, error in (
            ("billiard-polar", "full", [1e300, 1.0], "InvalidStart"),
            ("billiard-polar", "reduced", [0.1, 1e300], "IntegrationFailure"),
            ("billiard-polar", "resequenced", [1e300, 1.0], "InvalidStart"),
            ("billiard-cartesian", "full", [0.0, 1e154],
             "IntegrationFailure")):
        yield (f"{model}-{mode}-overflow", [],
               {"model": model, "mode": mode,
                "initial_q": [0.5, 0.0], "initial_v": v}, error)


def digest(path):
    """sha256 of the file at path; of run.json without its "out" line."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "run.json":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if b'"out":' not in line)
    return hashlib.sha256(data).hexdigest()


def missed(case_dir, code, error):
    """True when a case's exit code and error record are not the
    expected ones: exit 0 and no error.json when error is None, else exit
    1 and an error.json whose "error" is error."""
    path = os.path.join(case_dir, "error.json")
    if error is None:
        return code != 0 or os.path.exists(path)
    if code != 1 or not os.path.exists(path):
        return True
    with open(path) as fh:
        return json.load(fh).get("error") != error


def main():
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep))
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args, doc, error in cases():
            if doc is not None:
                config = os.path.join(tmp, f"{name}.json")
                with open(config, "w") as fh:
                    json.dump(doc, fh)
                args = ["--config", config]
            code = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m",
                 "hybridlag.cli", "run", *args,
                 "--horizon", HORIZON, "--out", name],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL).returncode
            print(f"exit {code}  {name}")
            case_dir = os.path.join(tmp, name)
            files = sorted(os.listdir(case_dir)) if os.path.isdir(
                case_dir) else []
            for file in files:
                print(f"{digest(os.path.join(case_dir, file))}  "
                      f"{name}/{file}")
            if missed(case_dir, code, error):
                failed.append(f"{name} (exit {code}, expected "
                              f"{error or 'exit 0'})")
    for line in failed:
        print(f"unexpected outcome: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
