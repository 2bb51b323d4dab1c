"""Label shift adaptation via class probability matching on kernel methods."""
