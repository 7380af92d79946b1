"""Contract-similarity retrieval and the vulnerability knowledge base."""
