"""Cell benchmark for the SkyWalker simulator (see README.md)."""
