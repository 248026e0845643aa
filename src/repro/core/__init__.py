"""Top-level orchestration: the Verfploeter system and canonical scenarios."""
