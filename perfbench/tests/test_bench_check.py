import math

import check

CSV = """# scenario = "demo"
Delta,g2_numeric,r_phase,residual
-1.0,0.5,3.141592653589793,1e-12
0.0,0.25,0.0,2e-12
1.0,0.5,-1.0,1e-12
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_identical_output_passes(tmp_path):
    path = write(tmp_path, "a.csv", CSV)
    ref = check.reference_table(path)
    failed, dev = check.check_scenario(path, 0, 3, ref, first_pass_csv=path)
    assert failed == 0 and dev < 1e-12  # references keep 12 significant digits


def test_one_perturbed_value_fails_one_point(tmp_path):
    ref = check.reference_table(write(tmp_path, "ref.csv", CSV))
    bad = write(tmp_path, "bad.csv", CSV.replace("0.0,0.25", "0.0,0.2500025"))
    failed, dev = check.check_scenario(bad, 0, 3, ref)
    assert failed == 1
    assert dev > check.RTOL


def test_deviation_below_tolerance_passes(tmp_path):
    ref = check.reference_table(write(tmp_path, "ref.csv", CSV))
    close = write(tmp_path, "close.csv", CSV.replace("0.0,0.25", "0.0,0.2500000001"))
    failed, dev = check.check_scenario(close, 0, 3, ref)
    assert failed == 0 and 0 < dev < check.RTOL


def test_missing_row_fails_one_point(tmp_path):
    ref = check.reference_table(write(tmp_path, "ref.csv", CSV))
    short = write(tmp_path, "short.csv", CSV.rsplit("1.0,0.5", 1)[0])
    assert check.check_scenario(short, 0, 3, ref)[0] == 1


def test_truncated_row_counts_as_missing(tmp_path):
    ref = check.reference_table(write(tmp_path, "ref.csv", CSV))
    cut = write(tmp_path, "cut.csv", CSV[:CSV.rindex(",")] + "\n")
    assert check.check_scenario(cut, 0, 3, ref)[0] == 1


def test_nonzero_exit_fails_every_point(tmp_path):
    path = write(tmp_path, "a.csv", CSV)
    assert check.check_scenario(path, 3, 3, None)[0] == 3


def test_residual_is_bounded_not_compared(tmp_path):
    ref = check.reference_table(write(tmp_path, "ref.csv", CSV))
    moved = write(tmp_path, "moved.csv", CSV.replace("2e-12", "5e-10"))
    assert check.check_scenario(moved, 0, 3, ref)[0] == 0
    large = write(tmp_path, "large.csv", CSV.replace("2e-12", "2e-9"))
    assert check.check_scenario(large, 0, 3, ref)[0] == 1


def test_invariants_without_reference(tmp_path):
    negative = write(tmp_path, "neg.csv", CSV.replace("0.0,0.25", "0.0,-0.25"))
    assert check.check_scenario(negative, 0, 3, None)[0] == 1
    nan = write(tmp_path, "nan.csv", CSV.replace("0.0,0.25", "0.0,nan"))
    assert check.check_scenario(nan, 0, 3, None)[0] == 1
    gain = "Delta,r_abs\n0.0,1.5\n1.0,0.9\n"
    assert check.check_scenario(write(tmp_path, "r.csv", gain), 0, 2, None)[0] == 1


def test_repeat_must_be_byte_identical(tmp_path):
    first = write(tmp_path, "first.csv", CSV)
    again = write(tmp_path, "again.csv", CSV.replace("-1.0,1e-12", "-1.0,1.0e-12"))
    assert check.check_scenario(again, 0, 3, None, first_pass_csv=first)[0] == 1


def test_phase_wraps():
    assert check._deviation("r_phase", -math.pi, math.pi, math.pi) < 1e-15
    assert check._deviation("r_re", -math.pi, math.pi, math.pi) == 2.0


def test_merged_chunks_keep_the_first_header_and_every_row(tmp_path):
    head, rows = CSV.split("Delta,", 1)
    lines = ("Delta," + rows).splitlines()
    a = write(tmp_path, "a.csv", head + "\n".join(lines[:2]) + "\n")
    b = write(tmp_path, "b.csv", head + "\n".join([lines[0]] + lines[2:]) + "\n")
    merged = check.merge_csvs([a, tmp_path / "absent.csv", b], tmp_path / "m" / "all.csv")
    assert merged.read_text(encoding="utf-8") == CSV
