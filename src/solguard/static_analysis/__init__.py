"""Pattern-library-driven static scanner over a lexical view of Solidity."""
