"""Every public function, method and property of the package is run by a CLI verb.

Code that only the tests call belongs in ``oracles.py``.  The verbs run in
a fresh interpreter (this module as a script, printing what they missed),
because the caches the other tests fill would hide a function a cold run
enters.
"""

import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

DATA = Path(__file__).parent / "data"
INVOCATIONS = [
    *([verb, str(path)] for path in sorted(DATA.iterdir()) for verb in ("check", "adjoints", "laws")),
    ["verify", "--suite", "lf"],
    ["quantale", "--zn", "12", "--principal"],
    ["quantale", str(DATA / "frame3.q"), "--principal"],
    ["search", "--predicate", "LM0 & !LF0", "--max-size", "4"],
    ["search", "--predicate", "LM0 & RM0 & !(LF0 & RF0)", "--max-size", "3", "--all-lattices"],
]


def public_functions():
    """Code object -> dotted name of every public function of the package's modules,
    and of every public method, property and cached property of its public classes."""
    import ordbench

    found = {}
    for info in pkgutil.iter_modules(ordbench.__path__):
        module = importlib.import_module(f"ordbench.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, fn in members:
                fn = getattr(fn, "fget", None) or getattr(fn, "func", None) or fn
                fn = inspect.unwrap(fn) if callable(fn) else fn  # behind an lru_cache
                if not attr.startswith("_") and inspect.isfunction(fn):
                    found[fn.__code__] = ".".join(filter(None, (info.name, name, attr)))
    return found


def unreached():
    """The names of the public functions, and of those no invocation enters."""
    from ordbench import cli

    targets, entered = public_functions(), set()
    sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
    try:
        for args in INVOCATIONS:
            sys.argv = ["ordbench", *args]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    cli.main()
                except SystemExit:
                    pass
    finally:
        sys.setprofile(None)
    return sorted(targets.values()), sorted(name for code, name in targets.items() if code not in entered)


def test_every_public_function_is_run_by_a_verb():
    import ordbench

    paths = [str(Path(ordbench.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names, missed = json.loads(done.stdout)
    # a function, one behind an lru_cache, a method, a property, a cached property
    kinds = ["laws.eval_law", "lattice.monotone_maps", "laws.Witness.render",
             "lattice.FiniteLattice.size", "lattice.FiniteLattice.is_modular"]
    assert set(kinds) <= set(names)
    assert not any(part.startswith("_") for name in names for part in name.split("."))
    assert missed == []


if __name__ == "__main__":
    print(json.dumps(unreached()))
