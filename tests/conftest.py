"""Settings shared by the whole suite: one hypothesis profile."""

from hypothesis import settings

# An example may run a trial or a whole campaign, far past hypothesis's
# default 200 ms deadline; each test keeps its own max_examples.
settings.register_profile("qauthsim", deadline=None)
settings.load_profile("qauthsim")
