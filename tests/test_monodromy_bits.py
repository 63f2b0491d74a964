"""Bit-for-bit pin of the series transport on every assemblable system.

For each of the five ``parametrizations.SUPPORTED`` systems at seed 8,
the sha256 of the generators' bytes (the loop at infinity's last), the
chord count and the series order must repeat exactly, with the default
BLOCK and with blocks of 4 chords, which put the recurrence through many
blocks.  A change to the order in which the recurrence multiplies or
adds moves the bits and fails this test, where the tolerance-based tests
of ``test_monodromy.py`` would still pass.

The recurrence's products are matrix products, which numpy hands to the
BLAS library; OpenBLAS picks its kernel (and whether it fuses
multiply-adds) from the CPU at run time.  The digests were recorded
with numpy 2.4.6 and OpenBLAS 0.3.31 running its SkylakeX kernels on an
Intel Xeon with AVX-512; another BLAS build or CPU may move their last
bits with no change to the code.

Run ``python tests/test_monodromy_bits.py`` to print the current
record as JSON.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from painlab import monodromy
from painlab.parametrizations import SUPPORTED
from painlab.sampling import rng_from_seed
from test_monodromy import _assembled

PIN = Path(__file__).parent / "data" / "monodromy_bits_20260810.json"


def _record(rep):
    mats = np.array(rep.matrices + (rep.at_infinity,))
    return {"sha256": hashlib.sha256(mats.tobytes()).hexdigest(),
            "transport_steps": rep.transport_steps,
            "series_order": rep.series_order}


def current(block=monodromy.BLOCK):
    saved = monodromy.BLOCK
    monodromy.BLOCK = block
    try:
        return {sid: _record(monodromy.monodromy_representation(
                    _assembled(sid, rng_from_seed(8))))
                for sid in SUPPORTED}
    finally:
        monodromy.BLOCK = saved


def test_series_transport_repeats_pinned_bits():
    pin = json.loads(PIN.read_text())
    assert current() == pin
    assert current(block=4) == pin


if __name__ == "__main__":
    print(json.dumps(current(), indent=1))
