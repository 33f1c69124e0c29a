import io

import numpy as np

from ghd.csvfmt import write_rows


def _neighbourhoods(ulps=40):
    """The floats within ``ulps`` steps of 10^k and 5 10^k, k in [-300, 20],
    with both signs."""
    k = np.arange(-300, 21, dtype=float)
    centres = np.concatenate((10.0 ** k, 5.0 * 10.0 ** k))
    bits = centres.view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    values = bits.ravel().view(np.float64)
    return np.concatenate((values, -values))


def test_renderer_matches_percent_17g():
    rng = np.random.default_rng(20240)
    patterns = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64, endpoint=False)
    values = np.concatenate((patterns.view(np.float64), _neighbourhoods()))
    values = values[: values.size // 8 * 8].reshape(-1, 8)
    expect = [["%.17g" % v for v in row] for row in values.tolist()]
    for sep in (",", " "):
        fh = io.StringIO()
        write_rows(fh, [("", values)], sep=sep)
        assert fh.getvalue() == "".join(sep.join(row) + "\n" for row in expect)
