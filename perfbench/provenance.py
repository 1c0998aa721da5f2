"""The manifest carried by every benchmark record: what produced the numbers."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional


def source_sha256(src: Path) -> str:
    """sha256 over every ``repro/**/*.py`` under ``src``: relative path, then bytes."""
    digest = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_state(root: Path) -> Dict[str, object]:
    """Commit and dirty flag; both ``None`` outside a git work tree."""
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None}
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "dirty": None if status is None else bool(status)}


def jsonable(value):
    """``dataclasses.asdict`` output made JSON-safe (enums by name)."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def manifest(root: Path, case, seed: int) -> Dict[str, object]:
    """Provenance of one record: source, interpreter, machine, configuration."""
    return {
        "git": git_state(root),
        "source_sha256": source_sha256(root / "src"),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": case.name,
        "seed": seed,
        "params": jsonable(dataclasses.asdict(case.params)),
        "nic": jsonable(dataclasses.asdict(case.nic)),
    }
