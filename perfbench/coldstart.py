"""One cold start of bbecho, for the benchmark's ``setup_s``.

    python3 perfbench/coldstart.py SRC_DIR STATE_DIR N

Imports bbecho from SRC_DIR, makes the first BLAS call (diagonalizing
the 2N x 2N single-particle matrix of an N-site chain) and runs
``conventions.ensure`` against STATE_DIR, which must be empty, so the
full convention calibration runs. Prints ``ready`` when a first job
could start. The parent times the span from starting this process to
reading that line.
"""

import os
import sys


def setup(state_dir: str, n: int) -> None:
    """Import bbecho, warm BLAS at size 2N and calibrate into ``state_dir``."""
    os.environ["BBECHO_STATE_DIR"] = state_dir
    import bbecho
    from bbecho import conventions, freefermion
    from bbecho.model import ChainSpec

    spec = ChainSpec(N=n, lam=1.0, epsilon=0.25, links=(1,))
    freefermion.diagonalize(freefermion.build_bdg(spec, "up"))
    conv = conventions.ensure(bbecho.__version__)
    if conv.source != "calibrated":
        raise RuntimeError(f"state dir {state_dir} was not empty: {conv.source}")


if __name__ == "__main__":
    src, state, size = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    setup(state, size)
    print("ready", flush=True)
