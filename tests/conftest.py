from hypothesis import settings

# derandomized examples keep the tier-1 suite deterministic from run to run
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")
