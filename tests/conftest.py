import sys
from pathlib import Path

# The runnable experiments under scripts/ are importable by module name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
