"""tools/compare_outputs.py: per-file report and exit code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def test_compare_outputs_reports_worst_difference(tmp_path, capsys):
    a = _tree(tmp_path / "a", {"same.txt": "x 1\n",
                               "sim/d.csv": "t,lam\n0.0,2.0\n0.5,-0.0\n",
                               "f.obj": "v 1.0 2.0 3.0\n"})
    b = _tree(tmp_path / "b", {"same.txt": "x 1\n",
                               "sim/d.csv": "t,lam\n0.0,2.5\n0.5,0.0\n",
                               "f.obj": "v 1.0 2.0 3.0000000001\n"})
    assert compare_outputs.main(["", a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "f.obj: max abs 1.000e-10 (line 1), max rel 3.333e-11 (line 1)",
        "same.txt: identical",
        "sim/d.csv: max abs 5.000e-01 (line 2, lam), "
        "max rel 2.000e-01 (line 2, lam)",
    ]


def test_compare_outputs_fails_on_other_files_or_text(tmp_path, capsys):
    a = _tree(tmp_path / "a", {"s.txt": "slope 1.0\n", "only_a.csv": "1\n"})
    b = _tree(tmp_path / "b", {"s.txt": "order 1.0\n"})
    assert compare_outputs.main(["", a, b]) == 1
    out = capsys.readouterr().out
    assert "only_a.csv: only in" in out
    assert "s.txt: text differs (line 1)" in out
