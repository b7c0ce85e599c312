"""The benchmark's tracer still finds every name it wraps."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    # perfbench/tracing.py replaces module attributes, including
    # betasieve.cli.log_beta_pdf and betasieve.similarity.log_beta, which
    # those modules import only for it; a refactor that drops one breaks --trace 1
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "import tracing\n"
        "tracing.install(tracing.Tracer())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
