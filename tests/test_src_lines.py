"""``tools/src_lines.py`` runs, adds up, and names the CLI's private imports."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNT = re.compile(r"src/pht(?:/(\S+\.py))?: (\d+) lines, (\d+) code-only")


def test_src_lines_sums_modules_and_lists_the_cli_private_imports():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py")], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    counts = [COUNT.fullmatch(line) for line in run.stdout.splitlines()]
    modules = [(int(m[2]), int(m[3])) for m in counts if m and m[1]]
    (package,) = [(int(m[2]), int(m[3])) for m in counts if m and not m[1]]
    assert len(modules) == len(list((ROOT / "src" / "pht").glob("*.py")))
    assert package == tuple(map(sum, zip(*modules)))
    # the three that ROADMAP aim 2 gives a reason for, and no other
    cli = "src/pht/cli.py imports 3 private names _exactness_failure _general_t_system _positive_metric"
    assert [line for line in run.stdout.splitlines() if line.startswith("src/pht/cli.py imports")] == [cli]
