"""The runs ``runs`` shares stay as they were built: ``conftest.py`` runs
this test after every test that reads them."""

import runs


def test_shared_runs_stay_read_only():
    changed = [built for built, result, kept in runs.BUILT if runs.fingerprint(result) != kept]
    assert not changed
