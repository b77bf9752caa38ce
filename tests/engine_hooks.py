"""Hooks that count what the engine does, for the tests and for
``tests/work_counts.py``.  A hook replaces an engine function at every
binding of it: the attributes of the loaded ``nexus`` modules and of the
classes they define, so a call is seen whichever module makes it.  Every
binding is restored on exit, also on an exception."""

import contextlib
import sys

from nexus import homs


class LimitExceeded(BaseException):
    """More calls than a hook's ``limit``.  Not an ``Exception``, so no
    handler in the engine takes it for an engine error."""


def _owners():
    """The loaded ``nexus`` modules, and each class once, in the module
    that defines it."""
    for name, module in list(sys.modules.items()):
        if name == "nexus" or name.startswith("nexus."):
            yield module
            yield from (value for value in vars(module).values()
                        if isinstance(value, type) and value.__module__ == name)


@contextlib.contextmanager
def replaced(fn, make):
    """``make(fn)`` in place of ``fn`` at every engine binding of it."""
    replacement, patched = make(fn), []
    try:
        for owner in _owners():
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    setattr(owner, attr, replacement)
                    patched.append((owner, attr))
        if not patched:
            raise LookupError(f"no engine binding of {fn!r}")
        yield
    finally:
        for owner, attr in patched:
            setattr(owner, attr, fn)


@contextlib.contextmanager
def _recorded(fn, limit, what, entry):
    made = []

    def make(original):
        def recording(*args, **kwargs):
            made.append(entry(args))
            if limit is not None and len(made) > limit:
                raise LimitExceeded(f"more than {limit} {what}")
            return original(*args, **kwargs)
        return recording

    with replaced(fn, make):
        yield made


def calls(fn, limit=None):
    """The argument tuples of each call of ``fn``, in call order.  The
    call past ``limit`` raises ``LimitExceeded`` instead of running."""
    return _recorded(fn, limit, f"calls of {fn.__qualname__}", tuple)


def searches(limit=None):
    """The ``homs._Budget`` of each search that reaches the kernel's node
    loop, in order: a search's nodes are ``cap - left``, one past the cap
    when it ran out.  A root pass that rejects makes none.  The search
    past ``limit`` raises ``LimitExceeded`` as it starts."""
    return _recorded(homs._Budget.__init__, limit, "kernel searches", lambda args: args[0])
