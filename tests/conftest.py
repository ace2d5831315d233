import pytest
from hypothesis import settings

from l1ax.corpus import load_corpus

# keep property runs reproducible and free of per-example deadlines; bigint
# table construction can spike on the first call while caches warm up
settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def replayed_table(tmp_path_factory):
    """The byte-identity table, replayed once in this process."""
    from test_output_identity import _table, _write_files

    return _table(_write_files(tmp_path_factory.mktemp("identity")))
