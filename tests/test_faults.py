"""The exit-code contract under injected faults.

Every library function that `simplify`, `verify` and `report` reach on one
small item is made to raise, in turn, a `KeyError`, a `RecursionError` and
a `CheckError`, and each command that reaches it runs through `cli.main`.
Each run must end as a fault of the tool (rc 2 with one `internal error:`
line) or, in `verify`, as a listed failed sample (rc 1), and never print a
traceback. The item is parsed before the faults are injected, so they hit
the commands, not the reader, and each run takes a copy of it under a
signature of its own, so that no run finds what an earlier one remembered.
"""

import contextlib
import dataclasses
import io
import sys
import types

from coersimp import (
    check,
    cli,
    graph,
    phases,
    polarity,
    reduce,
    sample,
    semantics,
    subst,
    syntax,
    witness,
)
from coersimp.check import CheckError
from coersimp.corpus import parse_corpus
from coersimp.syntax import Signature

LIBRARY = (check, graph, phases, polarity, reduce, sample, semantics, subst, syntax, witness)

ITEM = """
(item sweep
  (signature (op Random (unit) (base bit)))
  (context
    (skel s1)
    (dirt d1) (dirt d2)
    (typaram f0 (arrow (param s1) (param s1)))
    (typaram f1 (arrow (param s1) (param s1)))
    (tyco c0 (param f0) (param f1))
    (dco p1 (dirt (Random) d1) (dirt () d2)))
  (poltype (arrow (param f0) (comp (param f1) (dirt ()))))
  (term (lam x (param f0) (return (castv (var x) (covar c0))))))
"""

COMMANDS = {
    "simplify": ["simplify"],
    "verify": ["verify", "--samples", "2"],
    "report": ["report"],
}
FAULTS = (KeyError("injected"), RecursionError("injected"), CheckError("injected"))


def library_functions():
    """Every function written in a library module, at module level or in
    one of its classes, by code object."""
    found = {}
    for mod in LIBRARY:
        for obj in vars(mod).values():
            members = [obj]
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                members = [getattr(m, "fget", None) or getattr(m, "func", None)
                           or getattr(m, "__func__", None) or m for m in vars(obj).values()]
            for f in members:
                if (isinstance(f, types.FunctionType) and f.__module__ == mod.__name__
                        and f.__code__.co_filename == mod.__file__):
                    found[f.__code__] = f
    return found


def run(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(COMMANDS[command])
    return rc, out.getvalue(), err.getvalue()


def raising(f):
    """A code object for `f` that raises the global `_injected_fault` of
    `f`'s module, whatever it is called with. It has `f`'s free variables,
    unread, so that `f` can take it."""
    free = f.__code__.co_freevars
    source = (
        "def outer():\n"
        + "".join(f"    {v} = None\n" for v in free)
        + "    def stand_in(*args, **kwargs):\n"
        + (f"        lambda: ({', '.join(free)},)\n" if free else "")
        + "        raise _injected_fault.with_traceback(None)\n"
        + "    return stand_in\n")
    scope = {}
    exec(source, scope)
    return scope["outer"]().__code__.replace(co_name=f.__code__.co_name,
                                             co_qualname=f.__code__.co_qualname)


def test_every_reached_library_function_fails_into_the_exit_code_contract(monkeypatch):
    (item,) = parse_corpus(ITEM)
    copies = []  # made before a fault is injected, one per run
    monkeypatch.setattr(cli, "_load_corpus", lambda args: [copies.pop()])

    def copy_for_each(runs):
        copies.extend(dataclasses.replace(item, signature=Signature(item.signature.ops))
                      for _ in range(runs))

    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    functions = library_functions()
    reached = {}
    copy_for_each(len(COMMANDS))
    for command in COMMANDS:
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in functions:
                seen.add(frame.f_code)

        sys.setprofile(profile)
        try:
            assert run(command)[0] == 0, command
        finally:
            sys.setprofile(None)
        for code in seen:
            reached.setdefault(code, []).append(command)
    assert len(reached) >= 150, len(reached)
    copy_for_each(len(FAULTS) * sum(map(len, reached.values())))

    outcomes = {"internal error": 0, "failed sample": 0}
    for code, commands in reached.items():
        f = functions[code]
        module = sys.modules[f.__module__]
        for exc in FAULTS:
            monkeypatch.setitem(vars(module), "_injected_fault", exc)
            f.__code__ = raising(f)
            try:
                results = [(command, run(command)) for command in commands]
            finally:
                f.__code__ = code
            where = (f.__module__, f.__qualname__, type(exc).__name__)
            for command, (rc, out, err) in results:
                assert "Traceback" not in out + err, (where, command)
                if rc == 2:
                    assert err.startswith("internal error: "), (where, command, err)
                    outcomes["internal error"] += 1
                else:
                    assert (rc, command) == (1, "verify"), (where, command, rc, err)
                    assert "    sample " in out and "reproduce:" in out, where
                    outcomes["failed sample"] += 1
    assert all(outcomes.values()) and not copies, outcomes
