"""Make ``perfbench`` and ``repro`` importable from the checkout."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "repro-native")
