from hypothesis import HealthCheck, settings

# CI keeps no example database between runs, so a drawn failure prints its
# @reproduce_failure line in the log
settings.register_profile(
    "default",
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
