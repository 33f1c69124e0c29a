"""The output comparison of ``.github/smoke_configs.py --base``.

The script is loaded read-only from its file.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "smoke_configs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("_smoke_configs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_max_diffs_reads_numbers_inside_labels(tmp_path):
    max_diffs = _load_script().max_diffs
    head = "# t = 0\n# x  mass  n(p=-4.25)  n(p=0.5)\n"
    (tmp_path / "old.dat").write_text(head + "-6 2.5 0.125 3\n")
    # the label's node moves by 0.25 (scaled 0.25 / 4.25), the value 0.125 by
    # 0.125 (scaled by 1): each gives one of the two maxima
    (tmp_path / "new.dat").write_text(head.replace("-4.25", "-4.5")
                                      + "-6 2.5 0.25 3\n")
    assert max_diffs(tmp_path / "new.dat", tmp_path / "old.dat") == ("0.25", "0.125")
    (tmp_path / "text.dat").write_text(head.replace("n(p=0.5)", "m(p=0.5)")
                                       + "-6 2.5 0.125 3\n")
    assert max_diffs(tmp_path / "text.dat", tmp_path / "old.dat") == ("text differs", "")
