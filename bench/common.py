"""The job record shared by the workload modules.

Each workload module has ``build(api, seed, workdir, variant=0)``, which
generates the inputs with the standard library only and returns a list of
``Job``.  ``api`` is the imported diffalg package; jobs look functions up
on it when called, so the tracer's patches apply.  ``variant`` draws fresh
scalars for the same job shapes: every pass of a run gets its own variant,
so no pass repeats an earlier pass's inputs, while job i costs the same in
every variant.
"""
from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional


class Job(NamedTuple):
    """One closed-loop call into diffalg.

    ``call()`` does the timed work through diffalg's public API.  Outside
    the timed region, ``render(result)`` turns its result into canonical
    JSON text, whose digest is compared across passes, and ``check`` takes
    that JSON parsed and returns None or a message saying what is wrong.
    """

    name: str
    call: Callable[[], Any]
    render: Callable[[Any], str]
    check: Callable[[Any], Optional[str]]
