def pytest_collection_modifyitems(items):
    # the check that the shared runs are unchanged comes after every test that reads them
    items.sort(key=lambda item: item.name == "test_shared_runs_stay_read_only")
