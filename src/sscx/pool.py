"""The process pool of ``sscx --jobs``: forked workers that each take the
next group of (check, params) tasks whenever they are free, built on
``os.fork``, pipes and ``select``.  The CLI imports this module only when
it runs a pool, so a serial command neither compiles nor loads it, and
hands it the functions that run a task and report a lost one, so the pool
never imports the CLI (under ``python -m sscx.cli`` that would load it a
second time)."""

from __future__ import annotations

import json
import os
import select
import signal


def pooled(groups, workers: int, run_task, error_report) -> list[dict]:
    """Run the groups of tasks on ``workers`` forked processes and return
    their reports in the order of ``groups``: ``run_task(task)`` is a task's
    report, and ``error_report(task, exc)`` the failing one of a task that
    was lost.

    The parent writes the group indices, in order, as 4-byte records into
    one task pipe, and each worker takes the next one whenever it is free.
    A worker answers each group with one JSON line ``[index, reports]`` on
    its own result pipe.  The parent feeds the task pipe and reads the
    result pipes with ``select``, so no full pipe stalls either side.  A
    group with no answer at the end was in flight in a worker that died
    (killed, out of memory) or was never taken; each of its tasks becomes a
    failing report with its own params and ``ChildProcessError``.  A fork
    that fails stops the forking, and the workers already forked take every
    group; with none, each task becomes a failing report with the fork's
    error.  If the parent raises, it kills and reaps every worker first."""
    fds = set()  # the parent's open descriptors

    def pipe():
        ends = os.pipe()
        fds.update(ends)
        return ends

    def close(fd):
        os.close(fd)
        fds.remove(fd)

    todo = b"".join(i.to_bytes(4, "little") for i in range(len(groups)))
    answers, pids, fork_error = {}, [], None
    try:
        tasks_r, tasks_w = pipe()
        lines = {}  # result pipe -> the start of its next line
        for _ in range(workers):
            result_r, result_w = pipe()
            try:
                pid = os.fork()
            except OSError as exc:  # say, EAGAIN under a process limit
                fork_error = exc
                close(result_r)
                close(result_w)
                break
            if pid == 0:
                _work(groups, run_task, tasks_r, result_w, fds - {tasks_r, result_w})
            pids.append(pid)
            close(result_w)
            lines[result_r] = b""
        close(tasks_r)
        # a non-blocking write of at most PIPE_BUF bytes is all or nothing,
        # so the task pipe only ever holds whole records
        os.set_blocking(tasks_w, False)
        while lines:
            feed = [tasks_w] if todo else []
            readable, writable, _ = select.select(list(lines), feed, [])
            if writable:
                try:
                    todo = todo[os.write(tasks_w, todo[: select.PIPE_BUF]):]
                except BlockingIOError:
                    pass
                except BrokenPipeError:  # every worker is gone
                    todo = b""
                if not todo:
                    close(tasks_w)
            for fd in readable:
                if chunk := os.read(fd, 1 << 16):
                    *done, lines[fd] = (lines[fd] + chunk).split(b"\n")
                    answers.update(map(json.loads, done))
                else:
                    close(fd)
                    del lines[fd]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in fds:
            os.close(fd)
        codes = {os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids}
    # with no worker forked, every group is lost to the fork's error
    lost = ChildProcessError("a worker died: " + ", ".join(sorted(
        f"exit status {code}" if code > 0 else f"signal {-code}"
        for code in codes - {0}
    ))) if pids else fork_error
    results = []
    for index, group in enumerate(groups):
        if index in answers:
            results.extend(answers[index])
        else:
            results.extend(error_report(task, lost) for task in group)
    return results


def _work(groups, run_task, tasks: int, results: int, others) -> None:
    """A worker: close the descriptors in ``others``, then answer the group
    of each index read from ``tasks`` on ``results`` until the task pipe is
    closed and empty.  It never returns into the parent's code and never
    flushes the stdout it inherited: it ends with ``os._exit``, 0 at the
    end of the tasks and 1 on any error."""
    code = 1
    try:
        for fd in others:
            os.close(fd)
        with open(results, "w", encoding="ascii") as out:
            while record := os.read(tasks, 4):
                index = int.from_bytes(record, "little")
                reports = [run_task(task) for task in groups[index]]
                out.write(json.dumps([index, reports]) + "\n")
                out.flush()
        code = 0
    finally:
        os._exit(code)
