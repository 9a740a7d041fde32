"""Scenario configuration files: one YAML document per scenario.

Parsing keeps a map from key paths to source lines so schema violations are
reported as ``file:line: path: message``.  Science parameters never come from
positional CLI arguments; everything lives in the declarative file.
"""

from __future__ import annotations

import math

import yaml

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
    """Parse YAML into (data, linemap); linemap keys are dotted paths.

    One loader pass builds the node tree, whose marks give the line map, and
    then the data from it; libyaml's C loader is used where pyyaml has it,
    except for text holding a tab.  The C loader accepts tabs that pyyaml's
    own ``SafeLoader`` rejects (``name:\\tx``), so such text always goes
    through ``SafeLoader`` and the verdict does not depend on how pyyaml was
    built.  A key given twice in one mapping is a config error at its second
    line, and so is an alias that contains itself, at the line of its anchor.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc), file=str(path)) from exc
    loader = (yaml.SafeLoader if "\t" in text else _LOADER)(text)
    linemap = {}
    try:
        node = loader.get_single_node()
        _walk(node, "", linemap, str(path))  # before construction, which flattens merge keys in place
        data = None if node is None else loader.construct_document(node)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark else None
        raise ConfigError(f"YAML syntax error: {exc}", file=str(path), line=line) from exc
    finally:
        loader.dispose()
    if data is None:
        raise ConfigError("empty config", file=str(path))
    return data, linemap


def _walk(node, prefix, linemap, file, on_path=frozenset()):
    if node is None:
        return
    if id(node) in on_path:  # an alias of a node that encloses it
        raise ConfigError("recursive alias", file=file, line=node.start_mark.line + 1, path=prefix)
    linemap[prefix] = node.start_mark.line + 1
    on_path |= {id(node)}
    if isinstance(node, yaml.MappingNode):
        seen = set()
        for k, v in node.value:
            key = str(k.value)
            path = f"{prefix}.{key}" if prefix else key
            if key in seen:
                raise ConfigError("duplicate key", file=file, line=k.start_mark.line + 1, path=path)
            seen.add(key)
            linemap[path] = k.start_mark.line + 1
            _walk(v, path, linemap, file, on_path)
    elif isinstance(node, yaml.SequenceNode):
        for i, v in enumerate(node.value):
            path = f"{prefix}[{i}]"
            _walk(v, path, linemap, file, on_path)


class Validator:
    """Typed reads of a config's keys; it remembers every path asked for, so a
    key that no reader takes can be reported."""

    def __init__(self, data, linemap, file):
        self.data = data
        self.linemap = linemap
        self.file = file
        self.read = set()

    def fail(self, path, message):
        # a missing key has no line of its own: name its nearest enclosing entry's
        line, parent = self.linemap.get(path), path
        while line is None and parent:
            parent = parent[: max(parent.rfind("."), parent.rfind("["), 0)]
            line = self.linemap.get(parent)
        raise ConfigError(message, file=self.file, line=line, path=path)

    def get(self, path, expected=None, required=True, default=None, choices=None):
        self.read.add(path)
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
        if isinstance(cur, float) and not math.isfinite(cur):
            self.fail(path, "expected a finite number")
        if choices is not None and cur not in choices:
            self.fail(path, f"expected one of {sorted(choices)}, got {cur!r}")
        return cur

    def reject_unread(self, *paths):
        """Fail on a key of the mapping at each of ``paths`` ("" is the top
        level) that no ``get`` asked for: a misspelled key is not ignored."""
        for path in paths:
            for key in self.get(path, required=False, default={}) if path else self.data:
                if (full := f"{path}.{key}" if path else str(key)) not in self.read:
                    self.fail(full, "unknown key")


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

