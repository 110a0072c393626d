from hypothesis import settings

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a red build replays locally
settings.register_profile("ci", derandomize=True)
