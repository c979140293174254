"""A generator run in a forked process, read back as it yields.

``forked(produce, *args)`` forks one process that iterates ``produce(*args)``
and writes each item it yields to a pipe as a pickle; the caller iterates
the items as they arrive, so the two processes run side by side on two
cores.  The process leaves by ``os._exit``, never returning into the
caller's code, and is reaped when the ``with`` block ends, whether or not
the block raised.
"""

from __future__ import annotations

import os
import pickle
import traceback
import warnings
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator


@contextmanager
def forked(produce: Callable[..., Iterable], *args) -> Iterator[Iterator]:
    """An iterator over what ``produce(*args)`` yields in a forked process.

    On leaving the block the read end is closed first, so a process blocked
    on a full pipe fails its write and ends, and then the process is reaped.
    If the process ends before its last item, reading raises RuntimeError
    naming ``produce`` and the exit status; the traceback of what ``produce``
    raised is on stderr.  A failed fork closes the pipe.  ``produce`` runs
    beside any thread the caller's process had, so it must take no lock
    they may hold; drawing from its own numpy Generator and yielding takes none.
    """
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns on a fork in a multi-threaded process, as this one is
        # once OpenBLAS has started its workers; produce takes no lock of theirs
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
            DeprecationWarning,
        )
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                for item in produce(*args):
                    pickle.dump(item, out)
                    out.flush()
            code = 0
        except Exception as error:  # a broken pipe is the reader leaving, not a fault
            if not isinstance(error, BrokenPipeError):
                os.write(2, traceback.format_exc().encode())  # unbuffered, so _exit loses none
        finally:
            os._exit(code)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    status = None

    def reap() -> int:
        nonlocal status
        if status is None:
            pipe.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return status

    def received():
        while True:
            try:
                item = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as error:
                if reap() == 0:
                    return
                name = f"{produce.__module__}.{produce.__qualname__}"
                raise RuntimeError(
                    f"the process forked to run {name} ended early with exit status {status}"
                ) from error
            yield item

    try:
        yield received()
    finally:
        reap()
