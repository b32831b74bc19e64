import sys
from pathlib import Path

# The benchmark's modules are scripts in perfbench/, not an installed
# package, and lobsim is imported from src/ of the same checkout.
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]
