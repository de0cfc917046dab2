// Package other is a second package whose test uses lib.
package other

// Hello is called by the program.
func Hello() string { return "hello" }
