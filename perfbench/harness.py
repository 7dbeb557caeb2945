"""Process plumbing shared by the untraced and traced runs: the work
directory, the children's environment, and one timed CLI invocation."""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import ROOT, Command

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / ".out"


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    maxrss_kb: int
    exit_code: int
    digest: str


def reset_work() -> Path:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    return WORK


def output_digest(work: Path, cmd: Command) -> str:
    """sha256 over every file the command wrote, its stdout and stderr."""
    h = hashlib.sha256()
    stem = Path(cmd.outputs[0]).stem
    for name in (*cmd.outputs, f"{stem}.stdout", f"{stem}.stderr"):
        path = work / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def spawn(args: list[str], env: dict, cwd: Path | None = None, stdout=None, stderr=None):
    """Run one child to completion: (wall seconds from spawn to reaped exit,
    its rusage, its exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        args,
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL if stdout is None else stdout,
        stderr=subprocess.DEVNULL if stderr is None else stderr,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


def invoke(cmd: Command, work: Path, env: dict) -> Invocation:
    """One ``python -m pvaudit.cli`` process, with its outputs digested."""
    stem = Path(cmd.outputs[0]).stem
    with open(work / f"{stem}.stdout", "wb") as out, open(work / f"{stem}.stderr", "wb") as err:
        wall, usage, code = spawn(
            [sys.executable, "-m", "pvaudit.cli", *cmd.argv], env, work, out, err
        )
    return Invocation(wall, usage.ru_maxrss, code, output_digest(work, cmd))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


