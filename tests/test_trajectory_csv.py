"""The trajectory file reader against the per-line reader it replaced.

`read_trajectory_csv` hands a regular body to numpy's C tokenizer and every
other file to its per-line reader. tests/sickness_oracle.py keeps the
per-line reader as it was; every file here must give the same rate and
positions, bit for bit, or the same error.
"""

from random import Random

import numpy as np
import pytest

import sickness_oracle
from tcpsbench import sickness
from tcpsbench.sickness import compliant_trajectory, read_trajectory_csv, write_trajectory_csv

FILES = 2400


def _outcome(read, path, fs_hz):
    try:
        traj = read(str(path), fs_hz)
    except Exception as exc:  # the error itself is the outcome compared
        return ("raised", type(exc), str(exc))
    return ("read", type(traj.fs_hz), np.float64(traj.fs_hz).tobytes(),
            traj.positions.dtype, traj.positions.tobytes())


def _number(rng: Random, x: float) -> str:
    """x in one of the spellings a hand-written or exported file may use."""
    form = rng.randrange(7)
    if form == 0:
        return repr(x)
    if form == 1:
        return f"{x:g}"
    if form == 2:
        return f"{x:E}"
    if form == 3:
        return str(int(x))
    if form == 4:
        return f"+{abs(x)!r}"
    if form == 5:
        return f" {x!r}  "
    return f"{x:.3f}"


STRAY = ["# aside", "  # indented aside", "", "   ", "\t", "pos_mm", "t_s,pos_mm", "1.0,",
         "nan", "0.5,nan", "1_0", "0.5,1_0", "2.0,3.0 # note", "# fs_hz: 5.0", "x,1.0",
         "0.25", "0.1,0.2,0.3", "0.1,0.2,note"]
LEADING = ["# recorded by hand", "  # indented", "", "  ", "t_s,pos_mm", "pos_mm", "t_s",
           "pos_mm,extra", "# fs_hz: {}", "  # fs_hz: {}", "# fs_hz: x"]


def _random_file(rng: Random) -> tuple[str, float | None]:
    """A file from the documented grammar, often with a stray line in its
    body, and the rate to pass (None: the file's own)."""
    lead = []
    for _ in range(rng.choice([0, 0, 1, 2, 3, 4])):
        line = rng.choice(LEADING)
        lead.append(line.format(_number(rng, rng.choice([10.0, 12.5, 30.0, 0.0, -4.0]))))
    fs = rng.choice([10.0, 20.0, 30.0, 40.0, 3.0])
    kind = rng.choice(["timed", "timed", "bare", "three", "text"])
    n = rng.choice([0, 1, 2, 3, 5, 8, 12])
    body = []
    for i in range(n):
        t = _number(rng, i / fs)
        p = _number(rng, rng.uniform(-300.0, 300.0) if rng.random() < 0.8 else rng.randrange(-9, 9))
        if kind == "bare":
            body.append(p)
        elif kind == "three":
            body.append(f"{t},{p},{_number(rng, 1.5)}")
        elif kind == "text":
            body.append(f"{t},{p},note")
        else:
            body.append(f"{t},{p}")
    if len(body) > 1 and kind != "bare" and rng.random() < 0.1:
        body[1] = body[0].split(",", 1)[0] + "," + body[1].split(",", 1)[1]  # equal first times
    if body and rng.random() < 0.45:
        for _ in range(rng.choice([1, 1, 2])):
            body.insert(rng.randrange(len(body) + 1), rng.choice(STRAY))
    newline = rng.choice(["\n", "\r\n"])
    text = newline.join(lead + body) + (newline if rng.random() < 0.8 else "")
    fs_hz = None if rng.random() < 0.6 else rng.choice([25.0, 7.5])
    return text, fs_hz


# a warning from either reader is an outcome too: np.loadtxt warns on a body with no data
@pytest.mark.filterwarnings("error")
def test_random_files_read_as_the_per_line_reader_reads_them(tmp_path, monkeypatch):
    per_line = []

    def counted(text, fs_hz):
        per_line.append(True)
        return read_lines(text, fs_hz)

    read_lines = sickness._read_lines
    monkeypatch.setattr(sickness, "_read_lines", counted)
    rng = Random(2024)
    path = tmp_path / "traj.csv"
    mismatches, fast_read, fast_raised, slow_read, slow_raised = [], 0, 0, 0, 0
    for i in range(FILES):
        text, fs_hz = _random_file(rng)
        path.write_bytes(text.encode("utf-8"))
        per_line.clear()
        got = _outcome(read_trajectory_csv, path, fs_hz)
        want = _outcome(sickness_oracle.read_trajectory_csv, path, fs_hz)
        if got != want:
            mismatches.append((i, text, fs_hz, got, want))
        read = got[0] == "read"
        if per_line:
            slow_read += read
            slow_raised += not read
        else:
            fast_read += read
            fast_raised += not read
    assert mismatches == []
    # both paths, and both outcomes on the C path, are exercised
    assert fast_read >= 450 and fast_raised >= 180
    assert slow_read >= 400 and slow_raised >= 800


@pytest.mark.parametrize("text, fs_hz", [
    # a form feed inside a line: two lines to str.splitlines, one to numpy
    ("0.0\f,5.0\n0.1,6.0\n", 10.0),
    ("# fs_hz: 10.0\n0.0\v,5.0\n0.1,6.0\n", None),
    ("# note\x1c1.0\n2.0\n3.0\n", 10.0),
    ("# fs_hz: 4.0 0.0,1.0\n0.0,2.0\n0.5,3.0\n", None),
    ("pos_mm\n1.0\x85,2.0\n3.0\n", 5.0),
    ("1.0,2.0\n", None),
    ("t_s,pos_mm\n", 10.0),
    ("", 10.0),
    ("\n\n", 10.0),
    ("# fs_hz: 10.0\n1.0\n", None),
    ("  2.5,-3.0\n\n0.25,4.0\n", None),
    ("0.0,1e999\n0.1,2.0\n", None),
    ("0.0,1.0\n-inf,2.0\n", None),
    ("inf,1.0\ninf,2.0\n", None),
])
@pytest.mark.filterwarnings("error")
def test_edge_files_read_as_the_per_line_reader_reads_them(tmp_path, text, fs_hz):
    path = tmp_path / "edge.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert (_outcome(read_trajectory_csv, path, fs_hz)
            == _outcome(sickness_oracle.read_trajectory_csv, path, fs_hz))


def test_written_and_bare_files_take_numpys_reader(tmp_path, monkeypatch):
    """A file from write_trajectory_csv, bare rows and rows with a third
    field are regular bodies: none of them reaches the per-line reader."""
    def refuse(text, fs_hz):
        raise AssertionError("read line by line")

    traj = compliant_trajectory(30.0, 400, 0.02, 0.8, seed=6)
    written = tmp_path / "written.csv"
    write_trajectory_csv(traj, str(written))
    bare = tmp_path / "bare.csv"
    bare.write_text("pos_mm\n" + "".join(f"{p!r}\n" for p in traj.positions.tolist()))
    three = tmp_path / "three.csv"
    three.write_text("# fs_hz: 30.0\n" + "".join(f"{i / 30.0!r},{p!r},0.5\n"
                                                for i, p in enumerate(traj.positions.tolist())))
    want = [_outcome(sickness_oracle.read_trajectory_csv, path, fs_hz)
            for path, fs_hz in ((written, None), (bare, 30.0), (three, None))]
    monkeypatch.setattr(sickness, "_read_lines", refuse)
    got = [_outcome(read_trajectory_csv, path, fs_hz)
           for path, fs_hz in ((written, None), (bare, 30.0), (three, None))]
    assert got == want
    back = read_trajectory_csv(str(written))
    assert back.fs_hz == traj.fs_hz and back.positions.tobytes() == traj.positions.tobytes()
    assert back.positions.flags.c_contiguous


def _refuse(text, fs_hz):
    raise AssertionError("read line by line")


@pytest.mark.parametrize("time", ["t", "1_0", "inf"])
def test_rated_two_field_body_never_converts_its_times(tmp_path, monkeypatch, time):
    """With the rate in the header, numpy splits off the time column but
    never converts it: times it would refuse do not send the file to the
    per-line reader, which ignores them too."""
    path = tmp_path / "rated.csv"
    path.write_text("# fs_hz: 12.5\nt_s,pos_mm\n"
                    + "".join(f"{time},{p!r}\n" for p in (1.5, -2.25, 3.0)), encoding="utf-8")
    want = _outcome(sickness_oracle.read_trajectory_csv, path, None)
    monkeypatch.setattr(sickness, "_read_lines", _refuse)
    assert _outcome(read_trajectory_csv, path, None) == want
    assert read_trajectory_csv(str(path)).positions.tolist() == [1.5, -2.25, 3.0]


@pytest.mark.parametrize("row", ["t_s,5.0", "pos_mm,5.0", "  t_s,5.0", "# aside,5.0",
                                 "  #,5.0"])
@pytest.mark.filterwarnings("error")
def test_comment_and_label_rows_in_a_rated_body_are_not_data(tmp_path, row):
    """The per-line reader skips these rows; with the times unconverted,
    numpy alone would read their second field as a position."""
    path = tmp_path / "marked.csv"
    path.write_text(f"# fs_hz: 10.0\n0.0,1.0\n{row}\n0.2,2.0\n", encoding="utf-8")
    got = _outcome(read_trajectory_csv, path, None)
    assert got == _outcome(sickness_oracle.read_trajectory_csv, path, None)
    assert got[-1] == np.array([1.0, 2.0]).tobytes()


def test_workload_sized_files_take_numpys_reader(tmp_path, monkeypatch):
    """Three files as the sickness replay benchmark writes them: 12 000
    steps at 20, 30 and 40 Hz."""
    paths = []
    for i, fs in enumerate((20.0, 30.0, 40.0)):
        paths.append(tmp_path / f"trajectory-{i}.csv")
        write_trajectory_csv(compliant_trajectory(fs, 12_000, 0.02, 0.8, seed=i), str(paths[-1]))
    want = [_outcome(sickness_oracle.read_trajectory_csv, path, None) for path in paths]
    monkeypatch.setattr(sickness, "_read_lines", _refuse)
    assert [_outcome(read_trajectory_csv, path, None) for path in paths] == want


def test_unrated_two_field_body_takes_its_rate_from_its_times(tmp_path, monkeypatch):
    path = tmp_path / "unrated.csv"
    path.write_text("t_s,pos_mm\n0.0,1.0\n0.25,2.0\n0.5,3.0\n", encoding="utf-8")
    want = _outcome(sickness_oracle.read_trajectory_csv, path, None)
    monkeypatch.setattr(sickness, "_read_lines", _refuse)
    assert _outcome(read_trajectory_csv, path, None) == want
    assert read_trajectory_csv(str(path)).fs_hz == 4.0
