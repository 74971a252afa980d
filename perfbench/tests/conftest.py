import sys
from pathlib import Path

# the benchmark's modules sit beside run.py, which imports them as top-level
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
