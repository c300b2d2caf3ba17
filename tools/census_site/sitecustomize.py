"""Function-entry recorder of ``tools/census.py``.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so putting this directory on ``PYTHONPATH`` records every
interpreter a run starts, child processes included (the ``wire_mixed``
server).  It does nothing unless ``REPRO_CENSUS_OUT`` names a directory.

While recording, a profile hook adds each entered code object to a set (one
hash per call; the hook is inherited by threads started through
``threading``).  At exit the process writes the code objects whose file lies
under ``REPRO_CENSUS_PREFIX`` to ``<out>/entries-<pid>.tsv``, one
``file<TAB>first line<TAB>name`` line each.  ``co_firstlineno`` of a
decorated function is its first decorator's line.
"""

import atexit
import os
import sys
import threading

_OUT = os.environ.get("REPRO_CENSUS_OUT")


def _install(out: str, prefix: str) -> None:
    seen = set()
    add = seen.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    def dump():
        sys.setprofile(None)
        threading.setprofile(None)
        while True:  # a daemon thread may still be adding entries
            try:
                codes = tuple(seen)
                break
            except RuntimeError:
                continue
        lines = sorted(
            {
                f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\n"
                for code in codes
                if code.co_filename.startswith(prefix)
            }
        )
        with open(os.path.join(out, f"entries-{os.getpid()}.tsv"), "w") as handle:
            handle.writelines(lines)

    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)


if _OUT:
    _install(_OUT, os.environ.get("REPRO_CENSUS_PREFIX", ""))
