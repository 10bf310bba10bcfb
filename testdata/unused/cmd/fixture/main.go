package main

import "fixture/internal/p"

func main() { println(p.Called()) }
