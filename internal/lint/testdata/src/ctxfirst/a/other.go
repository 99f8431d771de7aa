package a

// SweepMarkedWrongFile carries a directive-style comment, which exempts
// nothing.
//
//lint:ignore ctxfirst
func SweepMarkedWrongFile() {} // want "exported entry point SweepMarkedWrongFile must take a context.Context as its first parameter"
