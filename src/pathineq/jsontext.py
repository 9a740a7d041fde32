"""Reports as the text of ``json.dumps(obj, indent=1[, sort_keys=True])``, built by joins.

``json`` has no C encoder once ``indent`` is set.  Here a list of floats is
written with one ``map``, and a ``Rendered`` list holds floats already
written by ``float.__repr__`` (a CSV's cells), so they are rendered once.  A
circular reference raises ``RecursionError`` (in ``json``, ``ValueError``).
"""

from json.encoder import encode_basestring_ascii as _str

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # float.__repr__ -> JSON


class Rendered:
    """A list of floats given as their ``float.__repr__`` strings; ``items`` are their JSON texts."""

    def __init__(self, reprs):
        finite = "nan" not in reprs and "inf" not in reprs and "-inf" not in reprs
        self.items = reprs if finite else [_NONFINITE.get(r, r) for r in reprs]


def _scalar(x):
    """JSON text of a str, None, bool, int or float, tested in ``json``'s order; None for anything else."""
    if isinstance(x, str):
        return _str(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        r = float.__repr__(x)
        return _NONFINITE.get(r, r)
    return None


def _value(x, ind, sort):
    text = _scalar(x)
    if text is not None:
        return text
    inner = ind + " "
    if isinstance(x, dict):
        items = []
        for k, v in sorted(x.items()) if sort else x.items():
            if not isinstance(k, (str, int, float)) and k is not None:
                raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
            key = _scalar(k) if isinstance(k, str) else '"' + _scalar(k) + '"'
            items.append(key + ": " + _value(v, inner, sort))
        return "{" + inner + ("," + inner).join(items) + ind + "}" if items else "{}"
    if isinstance(x, Rendered):
        items = x.items
    elif isinstance(x, (list, tuple)):
        try:
            items = Rendered(list(map(float.__repr__, x))).items
        except TypeError:  # not a list of floats
            items = [_value(v, inner, sort) for v in x]
    else:
        raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")
    return "[" + inner + ("," + inner).join(items) + ind + "]" if items else "[]"


def dumps(obj, sort_keys=False):
    """``json.dumps(obj, indent=1, sort_keys=sort_keys)``, a ``Rendered`` written as its list of floats."""
    return _value(obj, "\n", sort_keys)


def write(path, obj, sort_keys=False):
    """Write ``dumps(obj, sort_keys)`` to ``path``; returns ``path``."""
    with open(path, "w") as fh:
        fh.write(dumps(obj, sort_keys))
    return path
