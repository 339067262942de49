"""Shared test settings: every hypothesis test is derandomized, keeps no
example database and has no deadline, so a run is reproducible and its
timing does not depend on the host."""

from hypothesis import settings

settings.register_profile("hyperconnect", deadline=None, database=None, derandomize=True)
settings.load_profile("hyperconnect")
