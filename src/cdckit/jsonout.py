"""`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, at less cost.

Every JSON file cdckit writes is indented, and the stdlib turns its C
encoder off for any `indent`: its Python encoder then passes each token up
through one generator per nesting level.  `dumps` appends each item to one
list instead.  Strings go through `encode_basestring_ascii`, the C function
json uses, and strings and ints are written inline in the container loops.

It keeps json's rules where they differ from the obvious ones:

* a value's type is judged as json's `isinstance` tests judge it, so a
  subclass of str, int, float, list, tuple or dict encodes as its base
  (an int or float through `int.__repr__` or `float.__repr__`, not its
  own), a bool as `true`/`false` and a named tuple as a list;
* non-finite floats are `NaN`, `Infinity` and `-Infinity`;
* a dict's items are sorted before its keys are converted, so int keys
  sort as numbers, and float, bool and None keys become strings;
* it raises `TypeError` where json does (an unsortable or unsupported key,
  a value of another type) and `ValueError` on a circular reference.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _str

_int = int.__repr__
_float = float.__repr__
_INF = float("inf")


def dumps(obj) -> str:
    """`obj` as `json.dumps(obj, indent=2, sort_keys=True)` writes it."""
    out: list[str] = []
    _value(obj, "", out, "\n", {})
    return "".join(out)


def _floatstr(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return _float(o)


def _scalar(o) -> str:
    if isinstance(o, str):
        return _str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int(o)
    if isinstance(o, float):
        return _floatstr(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _value(value, head: str, out: list[str], nl: str, markers: dict) -> None:
    """Append `head` and `value`, whose container's items start at the
    indent `nl`.  No type is both a container and a scalar, so testing the
    containers first gives json's order."""
    if isinstance(value, (list, tuple)):
        out.append(head)
        _list(value, out, nl, markers)
    elif isinstance(value, dict):
        out.append(head)
        _dict(value, out, nl, markers)
    else:
        out.append(head + _scalar(value))


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _floatstr(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return _int(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


# The loops below test the exact types of the common values first, which
# gives what `_value` gives for them, and leave every other value to it.

def _list(lst, out: list[str], nl: str, markers: dict) -> None:
    if not lst:
        out.append("[]")
        return
    mark = id(lst)
    if mark in markers:
        raise ValueError("Circular reference detected")
    markers[mark] = lst
    inner = nl + "  "
    sep = "," + inner
    head = "[" + inner
    append = out.append
    for value in lst:
        t = type(value)
        if t is str:
            append(head + _str(value))
        elif t is int:
            append(head + _int(value))
        elif t is dict:
            append(head)
            _dict(value, out, inner, markers)
        elif t is list:
            append(head)
            _list(value, out, inner, markers)
        else:
            _value(value, head, out, inner, markers)
        head = sep
    append(nl + "]")
    del markers[mark]


def _dict(dct, out: list[str], nl: str, markers: dict) -> None:
    if not dct:
        out.append("{}")
        return
    mark = id(dct)
    if mark in markers:
        raise ValueError("Circular reference detected")
    markers[mark] = dct
    inner = nl + "  "
    sep = "," + inner
    head = "{" + inner
    append = out.append
    for key, value in sorted(dct.items()):
        if type(key) is not str:
            key = _key(key)
        t = type(value)
        if t is str:
            append(f"{head}{_str(key)}: {_str(value)}")
        elif t is int:
            append(f"{head}{_str(key)}: {_int(value)}")
        elif t is dict:
            append(f"{head}{_str(key)}: ")
            _dict(value, out, inner, markers)
        elif t is list:
            append(f"{head}{_str(key)}: ")
            _list(value, out, inner, markers)
        else:
            _value(value, f"{head}{_str(key)}: ", out, inner, markers)
        head = sep
    append(nl + "}")
    del markers[mark]
