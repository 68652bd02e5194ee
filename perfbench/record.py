"""Record the reference outputs that gate.py compares against.

    python3 perfbench/record.py

Runs every workload at every input variant through the CLI in this
process and writes reference/<workload>-<variant>.csv.xz.  Re-record only
when the output contract changes on purpose, and say so in the change;
a performance change must leave every reference passing.
"""
import lzma
import os
import sys
import tempfile
from pathlib import Path

os.environ.pop("RABI_SPECTRA_JOBS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from rabi_spectra import cli  # noqa: E402

VARIANT_SEEDS = {str(k): k for k in range(workloads.REGULAR_VARIANTS)}
VARIANT_SEEDS["heldout"] = workloads.HELD_OUT_SEED


def main() -> int:
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        for name in workloads.NAMES:
            for variant, seed in VARIANT_SEEDS.items():
                wl = workloads.build(name, seed)
                rc = cli.main([*wl.argv, "--out", out])
                if rc != 0:
                    print(f"{name} variant {variant}: exit {rc}", file=sys.stderr)
                    return 1
                data = Path(out).read_bytes()
                path = gate.reference_path(name, variant)
                path.write_bytes(lzma.compress(data, preset=9 | lzma.PRESET_EXTREME))
                print(f"{path.name}: {len(data)} bytes, {path.stat().st_size} compressed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
