"""Signal-analysis helpers for the Elastic Cache Manager's monitors."""
