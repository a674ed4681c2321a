import sys
from pathlib import Path

# the benchmark's modules are top-level modules of bench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
