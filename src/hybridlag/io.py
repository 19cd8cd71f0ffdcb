"""Serialization of runs: trajectory/event tables and run metadata.

Numbers are written with 17 significant digits so a double round-trips
losslessly; all writers are deterministic (fixed column order, sorted
JSON keys), which is what makes repeated runs byte-identical.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from typing import FrozenSet, NamedTuple, Optional

import numpy as np

from .billiard import BilliardParams, get_scenario
from .errors import ParseError
from .hybrid import HybridFlow
from .models import MODEL_IDS, SCENARIO_IDS
from .reduction import ReconstructedFlow

SCHEMA_VERSION = 5


def fmt(x) -> str:
    """17-significant-digit decimal form of a float."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def trajectory_header(n: int, with_theta: bool = False):
    cols = (["t", "arc_index"]
            + [f"q_{i+1}" for i in range(n)]
            + [f"v_{i+1}" for i in range(n)])
    if with_theta:
        cols += ["theta", "theta_dot"]
    return cols


def events_header(n: int):
    return (["tau"]
            + [f"pre_q_{i+1}" for i in range(n)]
            + [f"pre_v_{i+1}" for i in range(n)]
            + [f"post_q_{i+1}" for i in range(n)]
            + [f"post_v_{i+1}" for i in range(n)]
            + ["guard_residual"])


def write_trajectory_csv(path, flow: HybridFlow,
                         recon: Optional[ReconstructedFlow] = None):
    """One row per step-grid point, tagged with its arc index. When a
    reconstruction is passed its cyclic coordinate columns are appended."""
    n = flow.arcs[0].states.shape[1] // 2
    lines = [",".join(trajectory_header(n, with_theta=recon is not None))]
    # one printf template per row: '%.17g' % x is fmt(x)
    row = ",".join(["%.17g", "%d"]
                   + ["%.17g"] * (2 * n + 2 * (recon is not None)))
    for k, arc in enumerate(flow.arcs):
        cols = [arc.times.tolist(), arc.states.tolist()]
        if recon is None:
            lines.extend(row % (t, k, *y) for t, y in zip(*cols))
        else:
            cols += [recon.theta[k].tolist(), recon.theta_dot[k].tolist()]
            lines.extend(row % (t, k, *y, th, dth)
                         for t, y, th, dth in zip(*cols))
    _write_text(path, "\n".join(lines) + "\n")


def write_events_csv(path, flow: HybridFlow):
    if flow.events:
        n = len(flow.events[0].pre.q)
    else:
        n = flow.arcs[0].states.shape[1] // 2
    lines = [",".join(events_header(n))]
    row = ",".join(["%.17g"] * (4 * n + 2))
    for e in flow.events:
        lines.append(row % (e.tau, *e.pre.q.tolist(), *e.pre.v.tolist(),
                            *e.post.q.tolist(), *e.post.v.tolist(),
                            e.guard_residual))
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# JSON records
# ---------------------------------------------------------------------------

def dumps_record(record: dict) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    out = []
    _render(record, out, 0)
    return "".join(out)


def write_json(path, record: dict):
    _write_text(path, dumps_record(record) + "\n")


def _render(obj, out, level):
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = sorted(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(f'{pad}  {json.dumps(str(k))}: ')
            _render(v, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _render(v, out, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt(obj))
    else:
        out.append(json.dumps(str(obj)))


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

MODES = ("full", "reduced", "resequenced", "compare", "verify")


class Setting(NamedTuple):
    """One configuration key: its JSON type, where its value goes
    ("run": a RunConfig field; "params": a field of RunConfig.params),
    whether it is required, and the values legal here. Parameter values
    are checked by BilliardParams."""

    kind: type
    dest: str = "run"
    required: bool = False
    choices: tuple = ()
    positive: bool = False


CONFIG_KEYS = {
    "model": Setting(str, required=True, choices=MODEL_IDS),
    "scenario": Setting(str, choices=SCENARIO_IDS),
    "mode": Setting(str, required=True, choices=MODES),
    "horizon": Setting(float, required=True, positive=True),
    "out": Setting(str),
    "initial_t": Setting(float),
    "initial_q": Setting(list),
    "initial_v": Setting(list),
    "m": Setting(float, "params"),
    "c": Setting(float, "params"),
}


@dataclass
class RunConfig:
    """Validated description of one CLI run.

    `params` are the scenario's billiard parameters (the defaults without
    a scenario) with the document's overrides applied; `param_keys` names
    the overridden ones, which are all that `to_record` echoes of them.
    """

    model: str
    mode: str
    horizon: float
    scenario: Optional[str] = None
    out: str = "."
    initial_t: Optional[float] = None
    initial_q: Optional[list] = None
    initial_v: Optional[list] = None
    params: BilliardParams = field(default_factory=BilliardParams)
    param_keys: FrozenSet[str] = frozenset()

    def to_record(self) -> dict:
        """The configuration document of this run: every run setting
        that is set, and the overridden parameters."""
        rec = {}
        for key, setting in CONFIG_KEYS.items():
            if setting.dest == "params" and key not in self.param_keys:
                continue
            value = getattr(self if setting.dest == "run"
                            else getattr(self, setting.dest), key)
            if value is not None:
                rec[key] = value
        return rec


def parse_config(text: str) -> RunConfig:
    """Parse a JSON configuration into a RunConfig.

    The text is a flat configuration object or a run.json record, whose
    "config" object is used. Unknown keys are rejected; values are type-
    and range-checked; defaults follow the module defaults. Raises
    ParseError with the offending key.
    """
    return config_from_dict(load_document(text))


def load_document(text: str) -> dict:
    """The flat configuration object in `text`: the text itself or the
    "config" object of a run.json record."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column "
                         f"{exc.colno}: {exc.msg}") from exc
    if isinstance(doc, dict):
        doc = doc.get("config", doc)
    if not isinstance(doc, dict):
        raise ParseError("configuration must be a JSON object")
    return doc


def config_from_dict(doc: dict) -> RunConfig:
    values = {"run": {}, "params": {}}
    for key, value in doc.items():
        if key not in CONFIG_KEYS:
            raise ParseError(f"unknown configuration key {key!r}", key=key)
        setting = CONFIG_KEYS[key]
        values[setting.dest][key] = _checked(key, value, setting)
    for key, setting in CONFIG_KEYS.items():
        if setting.required and key not in doc:
            raise ParseError(f"missing required key {key!r}", key=key)
    run = values["run"]
    if "initial_t" in run and not ("initial_q" in run or "initial_v" in run):
        raise ParseError("initial_t applies only to a start given by "
                         "initial_q and initial_v", key="initial_t")
    params = (get_scenario(run["scenario"]).params if "scenario" in run
              else BilliardParams())
    for key, value in values["params"].items():
        try:
            params = replace(params, **{key: value})
        except ValueError as exc:
            raise ParseError(f"key {key!r}: {exc}", key=key) from exc
    return RunConfig(**run, params=params,
                     param_keys=frozenset(values["params"]))


def _checked(key, value, setting: Setting):
    """`value` in the setting's type, after its type and range checks."""
    kind = setting.kind
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise ParseError(f"key {key!r} expects {kind.__name__}, got "
                         f"{type(value).__name__}", key=key)
    if kind is list and not all(isinstance(v, (int, float))
                                and not isinstance(v, bool) for v in value):
        raise ParseError(f"key {key!r} must be a list of numbers", key=key)
    if kind is float and not abs(value) <= sys.float_info.max:
        # JSON admits Infinity, NaN and ints past the float range
        raise ParseError(f"key {key!r} must be a finite number", key=key)
    if setting.positive and not value > 0:
        raise ParseError(f"key {key!r} must be positive", key=key)
    if setting.choices and value not in setting.choices:
        raise ParseError(f"unknown {key} {value!r}; expected one of "
                         f"{setting.choices}", key=key)
    return float(value) if kind is float else value
