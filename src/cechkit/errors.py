"""The input contract: one base class for every refusal of an input.

A document, flag or gallery argument that cechkit will not answer for
raises an `InputError`; the command line prints `input error: <message>`
on stderr and exits 2.  Anything else that escapes is a bug and surfaces
as a traceback: API misuse (mismatched dimensions, a map into a
non-subcomplex, a non-binary diagram where two pieces are needed) keeps
raising plain `ValueError` subclasses, so a program fault is never
reported as the user's.  The classes that more than one module raises
are defined here, once, as is `one_line`, which keeps a message or an
output line that quotes a document's text on one line.
"""

from __future__ import annotations


class InputError(ValueError):
    """The input is refused; the CLI prints `input error: <message>` and exits 2."""


class ResourceLimit(InputError):
    """A step would exceed its cap; it refuses before it starts, naming the cap."""


class WrongField(InputError):
    """The command needs another field, as line bundles need F_2."""


class NotSimplicial(ValueError):
    """A vertex map is undefined on a vertex, or sends a simplex outside its target."""


_LINE_BREAKS = {ord("\n"): "\\n", ord("\r"): "\\r"}


def one_line(text: str) -> str:
    """text with each line break written escaped, as \\n or \\r, so it prints as one line."""
    return text.translate(_LINE_BREAKS) if "\n" in text or "\r" in text else text
