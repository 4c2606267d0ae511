import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_bench.py"
spec = importlib.util.spec_from_file_location("compare_bench", SCRIPT)
compare_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_bench)


def test_verdicts_follow_the_pair_and_spread_rule():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    # equal runs: no difference at all
    assert compare_bench.compare(base, base)["verdict"] == "same"
    # lower in every pair, by more than the base's quartile spread
    shifted = [x - 0.2 for x in base]
    c = compare_bench.compare(base, shifted)
    assert (c["verdict"], c["lower_in"], c["pairs"]) == ("resolved lower", 10, 10)
    assert compare_bench.compare(shifted, base)["verdict"] == "resolved higher"
    # a gap inside the base's spread is not resolved, even when every pair agrees
    assert compare_bench.compare(base, [x - 0.005 for x in base])["verdict"] == "unresolved"
    # a wide gap that holds in only 8 of 10 pairs is not resolved either
    mixed = shifted[:8] + [x + 0.5 for x in base[8:]]
    c = compare_bench.compare(base, mixed)
    assert c["lower_in"] == 8 and c["verdict"] == "unresolved"
    # 9 wins of 10 are as unlikely under equal code as the rule allows; 2 of 2
    # or 6 of 6 are not, however wide the gap
    assert compare_bench.sign_p(9, 10) == 22 / 1024
    assert compare_bench.compare(base[:2], shifted[:2])["verdict"] == "unresolved"
    assert compare_bench.compare(base[:6], shifted[:6])["verdict"] == "unresolved"
    assert compare_bench.compare(base[:7], shifted[:7])["verdict"] == "resolved lower"
