"""The six pipeline agents and their orchestrator."""
