"""Taylor-scheme diffusion samplers, score oracles, and verification tools."""
