import tempfile

import hypothesis.configuration

# Hypothesis caches unicode tables and source constants in its home directory,
# ./.hypothesis by default. Its pytest plugin fills that cache while the test
# modules are collected, which is after this file is loaded, so point the home
# at a directory that is removed when the test run ends.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
hypothesis.configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# Every property test runs the same examples on every run, with no example
# database and no per-example deadline. A test that needs another example
# count than Hypothesis's default sets max_examples itself.
hypothesis.settings.register_profile("pointsaga", derandomize=True, database=None, deadline=None)
hypothesis.settings.load_profile("pointsaga")
