"""Anycast service model: sites, the service itself, and catchment maps."""
