"""Set-up cost of one egolog command, measured inside a fresh interpreter.

Times `import egolog.cli` followed by loading the config, captions and
queries files, and prints the seconds on stdout.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG_INI
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import egolog.cli  # noqa: E402
from egolog.corpus import load_captions, load_queries  # noqa: E402

config = egolog.cli.load_config(sys.argv[2])
load_captions(config.captions_path)
load_queries(config.queries_path)
print(time.perf_counter() - started)
