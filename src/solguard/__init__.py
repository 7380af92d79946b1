"""End-to-end smart contract vulnerability management.

Detection fuses three channels (pattern-based static analysis, TF-IDF
corpus retrieval, model review); confirmed findings flow through repair
suggestion, risk assessment, automated repair, and independent patch
verification into a seven-section audit report.
"""

__version__ = "0.1.0"
