"""Scenario configuration files: one YAML document per scenario.

Parsing keeps a map from key paths to source lines so schema violations are
reported as ``file:line: path: message``.  Science parameters never come from
positional CLI arguments; everything lives in the declarative file.
"""

from __future__ import annotations

import yaml


class ConfigError(ValueError):
    def __init__(self, message, file=None, line=None, path=None):
        self.file = file
        self.line = line
        self.path = path
        loc = f"{file or 'config'}"
        if line is not None:
            loc += f":{line}"
        where = f" {path}:" if path else ""
        super().__init__(f"{loc}:{where} {message}")


def load_config(path):
    """Parse YAML into (data, linemap); linemap keys are dotted paths."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc), file=str(path)) from exc
    try:
        node = yaml.compose(text)
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark else None
        raise ConfigError(f"YAML syntax error: {exc}", file=str(path), line=line) from exc
    if data is None:
        raise ConfigError("empty config", file=str(path))
    linemap = {}
    _walk(node, "", linemap)
    return data, linemap


def _walk(node, prefix, linemap):
    if node is None:
        return
    linemap[prefix] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        for k, v in node.value:
            key = str(k.value)
            path = f"{prefix}.{key}" if prefix else key
            linemap[path] = k.start_mark.line + 1
            _walk(v, path, linemap)
    elif isinstance(node, yaml.SequenceNode):
        for i, v in enumerate(node.value):
            path = f"{prefix}[{i}]"
            _walk(v, path, linemap)


class Validator:
    def __init__(self, data, linemap, file):
        self.data = data
        self.linemap = linemap
        self.file = file

    def fail(self, path, message):
        # a missing key has no line of its own: name its nearest enclosing entry's
        line, parent = self.linemap.get(path), path
        while line is None and parent:
            parent = parent[: max(parent.rfind("."), parent.rfind("["), 0)]
            line = self.linemap.get(parent)
        raise ConfigError(message, file=self.file, line=line, path=path)

    def get(self, path, expected=None, required=True, default=None, choices=None):
        cur = self.data
        for part in _split(path):
            if isinstance(part, int):
                cur = cur[part]
                continue
            if not isinstance(cur, dict) or part not in cur:
                if required:
                    self.fail(path, "missing required key")
                return default
            cur = cur[part]
        # bool subclasses int, but only a key that expects a bool takes a YAML true/false
        if expected is not None and (
            not isinstance(cur, expected) or (isinstance(cur, bool) and expected is not bool)
        ):
            names = getattr(expected, "__name__", None) or "/".join(
                t.__name__ for t in expected
            )
            self.fail(path, f"expected {names}, got {type(cur).__name__}")
        if choices is not None and cur not in choices:
            self.fail(path, f"expected one of {sorted(choices)}, got {cur!r}")
        return cur


def present(spec, keys):
    """The optional ``keys`` that ``spec`` sets, so a default lives only in the
    signature of the function that takes them."""
    return {k: spec[k] for k in keys if k in spec}


def _split(path):
    parts = []
    for token in path.split("."):
        while "[" in token:
            head, rest = token.split("[", 1)
            if head:
                parts.append(head)
            idx, token = rest.split("]", 1)
            parts.append(int(idx))
        if token:
            parts.append(token)
    return parts


_NUM = (int, float)

SAMPLERS = {"wiener", "flat_bridge", "ou", "hyperbolic_bridge"}
KERNELS = {"based_path", "bridge"}
ESTIMATOR_NAMES = {"variance", "entropy", "rayleigh", "lsi_ratio", "weight_tail", "exp_square_moment"}
FUNCTION_TYPES = {"coordinate", "hermite", "exp_half"}
TRANSFER_OPS = {
    "weighted_lsi_to_weak_lsi",
    "tail_to_weak_lsi",
    "weak_lsi_to_poincare",
    "weak_lsi_to_weak_poincare",
}


# each op's stage keys and their types, (required, optional); a stage with
# no beta takes the previous stage's profile
_BETA = {"beta": dict, "beta.C": _NUM, "beta.r0": _NUM}
STAGE_KEYS = {
    "weighted_lsi_to_weak_lsi": (
        {"cert": dict, "cert.a": _NUM, "cert.C_exp": _NUM},
        {"cert.M": _NUM, "smooth": bool},
    ),
    "tail_to_weak_lsi": ({"a": _NUM, "tail": dict}, {"tail.confidence": _NUM, "n_cap": int}),
    "weak_lsi_to_poincare": ({}, {**_BETA, "params": (str, dict), "budget": int}),
    "weak_lsi_to_weak_poincare": ({}, {**_BETA, "delta": _NUM, "delta0": _NUM, "r": _NUM, "sigma_cap": _NUM}),
}


def validate_transfer(v: Validator):
    v.get("name", expected=str)
    stages = v.get("pipeline", expected=list)
    if not stages:
        v.fail("pipeline", "no stages")
    for i in range(len(stages)):
        stage = f"pipeline[{i}]"
        op = v.get(f"{stage}.op", expected=str, choices=TRANSFER_OPS)
        required, optional = STAGE_KEYS[op]
        for key, expected in required.items():
            v.get(f"{stage}.{key}", expected=expected)
        for key, expected in optional.items():
            v.get(f"{stage}.{key}", expected=expected, required=False)
        if op == "tail_to_weak_lsi":
            if not 0 < v.get(f"{stage}.tail.confidence", required=False, default=0.5) < 1:
                v.fail(f"{stage}.tail.confidence", "confidence must lie in (0, 1)")
        if op == "weak_lsi_to_poincare":
            params = v.get(f"{stage}.params", required=False, default="auto")
            if isinstance(params, str) and params != "auto":
                v.fail(f"{stage}.params", f"expected 'auto' or a mapping, got {params!r}")
            for key in params if isinstance(params, dict) else ():
                v.get(f"{stage}.params.{key}", expected=_NUM)
    v.get("profile_grid", expected=dict, required=False)
    if v.get("profile_grid.points", expected=int, required=False, default=1) < 1:
        v.fail("profile_grid.points", "points must be >= 1")


def validate_sample(v: Validator):
    v.get("name", expected=str)
    v.get("sampler", expected=str, choices=SAMPLERS)
    v.get("seed", expected=int)
    n = v.get("n_paths", expected=int)
    if n < 1:
        v.fail("n_paths", "n_paths must be >= 1")
    v.get("dim", expected=int)
    T = v.get("T", expected=_NUM)
    if not T > 0:
        v.fail("T", "horizon T must be positive")
    v.get("grid.n_steps", expected=int)
    v.get("grid.tail", expected=dict, required=False)
    v.get("grid.tail.lam", expected=_NUM, required=False)
    v.get("grid.tail.floor", expected=_NUM, required=False)
    v.get("drift_cap", expected=_NUM, required=False)
    v.get("format", expected=str, required=False, default="binary", choices={"binary", "csv"})
    v.get("out", expected=str)


def validate_estimate(v: Validator):
    v.get("name", expected=str)
    v.get("ensemble", expected=str)
    v.get("kernel", expected=str, required=False, choices=KERNELS)
    ests = v.get("estimators", expected=list)
    for i, e in enumerate(ests):
        if e not in ESTIMATOR_NAMES:
            v.fail(f"estimators[{i}]", f"expected one of {sorted(ESTIMATOR_NAMES)}, got {e!r}")
    funcs = v.get("functions", expected=list, required=False, default=[])
    for i in range(len(funcs)):
        kind = v.get(f"functions[{i}].type", expected=str, choices=FUNCTION_TYPES)
        if kind == "hermite" and v.get(f"functions[{i}].degree", expected=int) < 0:
            v.fail(f"functions[{i}].degree", "degree must be >= 0")
        if kind == "exp_half":
            v.get(f"functions[{i}].lam", expected=_NUM)
        if v.get(f"functions[{i}].coord", expected=int, required=False, default=0) < 0:
            v.fail(f"functions[{i}].coord", "coord must be >= 0")
        v.get(f"functions[{i}].time", expected=_NUM, required=False)
    v.get("exp_square_c", expected=_NUM, required=False)
    v.get("out", expected=str)
