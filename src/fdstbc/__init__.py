"""Fast-decodable full-rate 2x2 space-time block code toolkit."""

__version__ = "0.1.0"
