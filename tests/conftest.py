import pytest
from hypothesis import settings

from latticelab.rng import SeededRng

# One fixed master seed for the whole suite; individual tests derive
# labeled sub-streams so reordering tests never changes their draws.
MASTER_SEED = bytes.fromhex(
    "7a1d0c9e55aa33019b4e6f2d8c77e1053fb08a6241d5ce97018e2b4c6fa93d50"
)

# Example budgets for the differential reader test (tests/test_fileio.py),
# which names one by LATTICELAB_HYPOTHESIS: "tier1" unless set, "ci" in CI's
# Tier-1 step.  Neither is loaded, so no other test's budget changes.
settings.register_profile("tier1", max_examples=150, deadline=None)
settings.register_profile("ci", max_examples=1500, deadline=None)


@pytest.fixture
def rng(request):
    return SeededRng(MASTER_SEED).derive(request.node.nodeid)
