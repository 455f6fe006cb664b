"""The input contract: one base class for every refusal of an input.

A document, flag or gallery argument that cechkit will not answer for
raises an `InputError`; the command line prints `input error: <message>`
on stderr and exits 2.  Anything else that escapes is a bug and surfaces
as a traceback: API misuse (mismatched dimensions, a map into a
non-subcomplex, a non-binary diagram where two pieces are needed) keeps
raising plain `ValueError` subclasses, so a program fault is never
reported as the user's.
"""

from __future__ import annotations


class InputError(ValueError):
    """The input is refused; the CLI prints `input error: <message>` and exits 2."""


class ResourceLimit(InputError):
    """A step would exceed its cap; it refuses before it starts, naming the cap."""
