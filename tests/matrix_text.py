"""The reference reader of the matrix text that reports print.

A conic or an affine map prints as "[[a, b, c], [d, e, f], [g, h, i]]",
each entry as `format_number` writes it.  No program path reads that text
back, so the reader lives here, with the tests that hold reports and
witnesses to it: it must give back the object that printed the text, and
refuse every other shape.
"""

import re

from cevian.scalar import Scalar

# three rows of bracketed entries, none of which holds a bracket, with free
# spacing
_TEXT = re.compile(r"\s*\[" + ",".join([r"\s*\[([^\[\]]*)\]\s*"] * 3) + r"\]\s*")


def read_matrix(cls, text: str):
    """The `cls` (a `HomogeneousMatrix` subclass) whose str() is `text`;
    ValueError for malformed text or an entry Scalar.parse refuses, and
    whatever `cls` raises for rows it does not accept."""
    m = _TEXT.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed matrix {text!r}")
    return cls([[Scalar.parse(x) for x in row.split(",")] for row in m.groups()])
