// Fixture header: minimal repo-root marker for grb_analyze self-tests.
// This fixture exercises only the ops-validate-first rule.
