import io
import re

from wkb_lab.cli import main
from wkb_lab.errors import NonFinite
from wkb_lab.verify import CHECKS, run_verification

_OK_LINE = re.compile(r"ok   (\S+): value=(\S+) bound=(\S+)")


def test_stdout_is_one_line_per_check_in_table_order():
    buf = io.StringIO()
    assert run_verification(buf) == []
    *lines, summary = buf.getvalue().splitlines()
    names = []
    for line in lines:
        match = _OK_LINE.fullmatch(line)
        assert match, line
        name, value, bound = match.groups()
        assert value == f"{float(value):.17g}"
        assert bound == f"{float(bound):g}"
        names.append(name)
    assert names == list(CHECKS)
    assert len(set(names)) == len(names)
    assert summary == "PASSED (0 failures)"


def test_a_check_that_raises_fails_and_the_later_checks_still_run(monkeypatch, capsys):
    def non_finite():
        raise NonFinite("state left the float range")

    def value_error():
        raise ValueError("bad parameter")

    names = list(CHECKS)
    monkeypatch.setitem(CHECKS, names[0], non_finite)
    monkeypatch.setitem(CHECKS, names[2], value_error)
    buf = io.StringIO()
    assert run_verification(buf) == [names[0], names[2]]
    *lines, summary = buf.getvalue().splitlines()
    assert lines[0] == f"FAIL {names[0]}: error=NonFinite"
    assert lines[2] == f"FAIL {names[2]}: error=ValueError"
    assert [line.split(":")[0].split()[1] for line in lines] == names
    assert all(line.startswith("ok   ") for line in lines[3:])
    assert summary == "FAILED (2 failures)"

    assert main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "FAILED (2 failures)"
    assert err == ""
