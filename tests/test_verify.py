from goodturing.verify import run_checks


def test_full_level_passes():
    results = run_checks("full")
    assert [(r.name, r.detail) for r in results if not r.passed] == []
    # the checks only the full level runs
    assert {"deep-enumeration", "monte-carlo"} <= {r.name for r in results}
